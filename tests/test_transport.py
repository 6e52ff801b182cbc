"""Transport behavior: connection lifecycle, ordering, buffering, fencing."""

import os
import socket
import threading
import time

import pytest

from egroup import Node, transport, wire
from egroup.errors import (
    ConnectError,
    DeadlineExceeded,
    DeliveryError,
    SetupError,
    ShutdownError,
)
from egroup.transport import (
    Endpoint,
    listen,
    match_fields,
    parse_address,
)
from egroup.wire import Envelope

from conftest import cluster, wait_buffered


def make_endpoint(name, epoch=-1):
    endpoint = listen("127.0.0.1:0", identity=name)
    if epoch >= 0:
        endpoint.advance_to(epoch)
    return endpoint


def env(epoch=0, tag=20, src=0, dst=1, payload=b""):
    return Envelope(epoch=epoch, tag=tag, src_rank=src, dst_rank=dst,
                    payload=payload)


def test_listen_resolves_ephemeral_port():
    ep = make_endpoint("a")
    try:
        host, port = ep.listen_address.rsplit(":", 1)
        assert host == "127.0.0.1"
        assert int(port) > 0
    finally:
        ep.close()


def test_two_listens_get_distinct_ports():
    a, b = make_endpoint("a"), make_endpoint("b")
    try:
        assert a.listen_address != b.listen_address
    finally:
        a.close()
        b.close()


def test_bind_conflict_is_setup_error():
    a = make_endpoint("a")
    try:
        with pytest.raises(SetupError):
            Endpoint(a.listen_address, "b")
    finally:
        a.close()


@pytest.mark.parametrize("make", [
    lambda address: listen(address, "a"),
    lambda address: Node(bind=address),
], ids=["listen", "node"])
@pytest.mark.parametrize("address", [
    "nohostport", "127.0.0.1:notaport", "127.0.0.1:70000",
    "127.0.0.1:8_0", "127.0.0.1: 80", "127.0.0.1:+80", "127.0.0.1:\u0668\u0660",
], ids=["no-port", "bad-port", "port-range", "underscore-port", "space-port",
        "plus-port", "non-ascii-digits"])
def test_malformed_bind_address_is_setup_error(address, make):
    with pytest.raises(SetupError) as excinfo:
        make(address)
    assert isinstance(excinfo.value.__cause__, ValueError)


@pytest.mark.parametrize("make", [
    lambda: Node(host_label=""),
    lambda: Node(host_label="h" * 65),
    lambda: Node(),  # EG_HOST_LABEL, set below
], ids=["empty", "too-long", "too-long-from-environment"])
def test_node_checks_its_host_label_before_binding(make, monkeypatch):
    # A label the node's own descriptor would refuse fails at once, before a
    # socket is bound or an I/O thread started.
    monkeypatch.setenv("EG_HOST_LABEL", "h" * 65)
    before = set(threading.enumerate())
    with pytest.raises(ValueError, match="host_label"):
        make()
    assert not [t.name for t in set(threading.enumerate()) - before]


def test_connect_to_closed_port_is_connect_error():
    # Bind b before closing a so the freed port cannot be handed to b.
    b = make_endpoint("b")
    a = make_endpoint("a")
    addr = a.listen_address
    a.close()
    try:
        with pytest.raises(ConnectError):
            b.connect(addr)
    finally:
        b.close()


@pytest.mark.parametrize("address", [
    "a..b:1",
    "h" * 64 + ".example:1",
    "127.0.0.1:notaport",
    "nohostport",
    "127.0.0.1:65536",
    "\u00fc" * 64 + ":1",
    "127.0.0.1:8_0",
    "127.0.0.1: 80",
    "127.0.0.1:+80",
    "127.0.0.1:\u0668\u0660",
], ids=["empty-label", "long-label", "bad-port", "no-port", "port-range",
        "bad-idna-name", "underscore-port", "space-port", "plus-port",
        "non-ascii-digits"])
def test_malformed_address_is_connect_error(address):
    # The bad-idna-name host is non-ASCII, so it is dialed as a str and fails
    # in the IDNA codec (its label is too long) before any lookup.
    a = make_endpoint("a")
    try:
        with pytest.raises(ConnectError):
            a.connect(address, timeout=5)
    finally:
        a.close()


def test_connect_after_the_deadline_is_deadline_exceeded():
    a, b = make_endpoint("a"), make_endpoint("b")
    try:
        with pytest.raises(DeadlineExceeded):
            a.connect(b.listen_address, timeout=wire.Deadline.of(-1.0))
        assert b.channel_to("a") is None
    finally:
        a.close()
        b.close()


def test_handshake_that_outlives_the_deadline_is_deadline_exceeded():
    # A listener that accepts but never answers the hello.
    silent = socket.create_server(("127.0.0.1", 0))
    a = make_endpoint("a")
    try:
        host, port = silent.getsockname()
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            a.connect(f"{host}:{port}", timeout=0.5)
        assert 0.4 < time.monotonic() - start < 3.0
    finally:
        silent.close()
        a.close()


def test_handshake_reply_trickled_past_the_deadline_is_deadline_exceeded():
    # A listener that answers the hello with the length prefix of a 32-byte
    # frame, then sends one byte every 0.2 s: the deadline bounds the whole
    # read of the reply, not each recv.
    server = socket.create_server(("127.0.0.1", 0))
    stop = threading.Event()

    def trickle():
        conn, _ = server.accept()
        with conn:
            wire.read_envelope(conn)
            conn.sendall(wire.LENGTH_PREFIX.pack(32))
            while not stop.wait(0.2):
                try:
                    conn.sendall(b"\x00")
                except OSError:
                    return

    thread = threading.Thread(target=trickle, daemon=True)
    thread.start()
    a = make_endpoint("a")
    try:
        host, port = server.getsockname()
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            a.connect(f"{host}:{port}", timeout=0.5)
        assert time.monotonic() - start < 1.0
    finally:
        stop.set()
        thread.join(5)
        server.close()
        a.close()


def forged_peer(reply: dict):
    """A listener that answers one hello with ``reply`` as its payload and
    then holds the connection open; returns (address, close)."""
    server = socket.create_server(("127.0.0.1", 0))
    conns = []

    def answer():
        conn, _ = server.accept()
        conns.append(conn)
        wire.read_envelope(conn)
        conn.sendall(wire.pack(Envelope(
            epoch=0, tag=wire.TAG_CONTROL, src_rank=wire.NO_RANK,
            dst_rank=wire.NO_RANK, payload=wire.encode_payload(reply))))

    thread = threading.Thread(target=answer, daemon=True)
    thread.start()

    def close():
        thread.join(5)
        for conn in conns:
            conn.close()
        server.close()

    host, port = server.getsockname()
    return f"{host}:{port}", close


@pytest.mark.parametrize("reply", [
    {"kind": "hello_ok", "incarnation_id": [1], "epoch": 0},
    {"kind": "hello_ok", "incarnation_id": 5, "epoch": 0},
    {"kind": "hello_ok", "epoch": 0},
    {"kind": "hello_ok", "incarnation_id": "p", "epoch": "0"},
    {"kind": "hello_ok", "incarnation_id": "p", "epoch": True},
    {"kind": "hello_ok", "incarnation_id": "p"},
    {"kind": "hello_reject", "reason": "duplicate", "incarnation_id": [1],
     "epoch": 0},
    {"kind": "hello_reject", "reason": "stale_epoch", "incarnation_id": "p",
     "epoch": [3]},
], ids=["list-id", "int-id", "no-id", "str-epoch", "bool-epoch", "no-epoch",
        "duplicate-list-id", "stale-list-epoch"])
def test_malformed_handshake_reply_is_connect_error(reply):
    address, close = forged_peer(reply)
    a = make_endpoint("a")
    try:
        with pytest.raises(ConnectError, match="malformed handshake reply"):
            a.connect(address, timeout=5)
        assert a.channels == {}
    finally:
        a.close()
        close()


def test_send_recv_happy_path():
    a, b = make_endpoint("a", 0), make_endpoint("b", 0)
    try:
        ch = a.connect(b.listen_address)
        assert ch.peer_id == "b"
        ch.send(env(payload=b"ping"))
        got = b.recv(timeout=5)
        assert got.payload == b"ping"
        assert got.epoch == 0
    finally:
        a.close()
        b.close()


def test_fifo_two_messages():
    a, b = make_endpoint("a", 0), make_endpoint("b", 0)
    try:
        ch = a.connect(b.listen_address)
        ch.send(env(payload=b"first"))
        ch.send(env(payload=b"second"))
        assert b.recv(timeout=5).payload == b"first"
        assert b.recv(timeout=5).payload == b"second"
    finally:
        a.close()
        b.close()


def test_fifo_soak_10k_in_order():
    a, b = make_endpoint("a", 0), make_endpoint("b", 0)
    try:
        ch = a.connect(b.listen_address)
        count = 10_000
        for i in range(count):
            ch.send(env(payload=i.to_bytes(4, "big")))
        seen = [int.from_bytes(b.recv(timeout=30).payload, "big")
                for _ in range(count)]
        assert seen == list(range(count))
    finally:
        a.close()
        b.close()


def test_selective_receive_buffers_non_matching():
    a, b = make_endpoint("a", 0), make_endpoint("b", 0)
    try:
        ch = a.connect(b.listen_address)
        ch.send(env(tag=3, payload=b"three-1"))
        ch.send(env(tag=7, payload=b"seven"))
        ch.send(env(tag=3, payload=b"three-2"))
        got = b.recv(match_fields(tag=7), timeout=5)
        assert got.payload == b"seven"
        # The tag-3 envelopes stayed buffered, in order.
        assert b.recv(match_fields(tag=3), timeout=5).payload == b"three-1"
        assert b.recv(match_fields(tag=3), timeout=5).payload == b"three-2"
    finally:
        a.close()
        b.close()


def test_receive_naming_a_sender_tests_only_its_envelopes():
    a, b, c = (make_endpoint(name, 0) for name in ("A", "B", "C"))
    try:
        from_b = b.connect(c.listen_address)
        for i in range(5):
            from_b.send(env(payload=b"b%d" % i))
        wait_buffered(c, lambda e: e.payload == b"b4")
        a.connect(c.listen_address).send(env(payload=b"a"))
        seen = []

        def counting(envelope):
            seen.append(envelope.payload)
            return True

        got, channel = c.recv_with_channel(counting, 5, "A")
        assert (got.payload, channel.peer_id, seen) == (b"a", "A", [b"a"])
        assert c.recv(timeout=5).payload == b"b0"
    finally:
        for endpoint in (a, b, c):
            endpoint.close()


def test_misrouted_envelope_waits_for_the_fence():
    # A third process dials rank 0 and forges rank 1's header. recv_on takes
    # only what came on rank 1's channel; the forgery stays buffered until
    # the fence rejects it, with a notice to the process that sent it.
    with cluster(2) as (g0, g1):
        intruder = Node(host_label="intruder")
        try:
            intruder.endpoint.advance_to(g0.epoch)
            channel = intruder.endpoint.connect(g0.node.listen_address)
            channel.send(env(epoch=g0.epoch, tag=77, src=1, dst=0,
                             payload=b"forged"))
            wait_buffered(g0.node.endpoint, lambda e: e.payload == b"forged")
            g1.node.send(g1, 0, 77, b"real")
            assert g0.node.recv_on(g0, 77, 1, timeout=5).payload == b"real"
            rejected = g0.node.endpoint.stale_rejected_count
            g0.node.endpoint.advance_to(g0.epoch + 1)
            notice = channel.wait_reject(1.0)
            assert notice is not None
            assert (notice["envelope_epoch"], notice["receiver_epoch"],
                    notice["tag"]) == (g0.epoch, g0.epoch + 1, 77)
            assert g0.node.endpoint.stale_rejected_count == rejected + 1
        finally:
            intruder.close()


def test_send_on_closed_channel_is_delivery_error():
    a, b = make_endpoint("a", 0), make_endpoint("b", 0)
    try:
        ch = a.connect(b.listen_address)
        ch.close()
        with pytest.raises(DeliveryError):
            ch.send(env())
    finally:
        a.close()
        b.close()


def test_simultaneous_connect_single_survivor():
    # Both sides dial at once; the pair must collapse to one live channel,
    # the one initiated by the lexicographically smaller id.
    for _ in range(5):
        a, b = make_endpoint("aaa", 0), make_endpoint("bbb", 0)
        try:
            chans = {}
            barrier = threading.Barrier(2)

            def dial(me, other, key):
                barrier.wait()
                chans[key] = me.connect(other.listen_address)

            t1 = threading.Thread(target=dial, args=(a, b, "a"))
            t2 = threading.Thread(target=dial, args=(b, a, "b"))
            t1.start(); t2.start()
            t1.join(10); t2.join(10)
            assert not t1.is_alive() and not t2.is_alive()
            time.sleep(0.2)  # let duplicate collapse settle
            live_a = [c for c in a.channels.values() if not c.closed]
            live_b = [c for c in b.channels.values() if not c.closed]
            assert len(live_a) == 1 and len(live_b) == 1
            assert live_a[0].initiator_id == "aaa"
            assert live_b[0].initiator_id == "aaa"
            # The surviving channel works in both directions.
            live_a[0].send(env(payload=b"from-a"))
            assert b.recv(timeout=5).payload == b"from-a"
            live_b[0].send(env(payload=b"from-b"))
            assert a.recv(timeout=5).payload == b"from-b"
        finally:
            a.close()
            b.close()


def test_stale_epoch_rejected_with_notice_to_sender():
    # Channel forms while both sides agree, then the receiver moves on to
    # epoch 2; an in-flight epoch-0 envelope must never be delivered and the
    # sender must observe the rejection.
    a, b = make_endpoint("a", 0), make_endpoint("b", 0)
    try:
        ch = a.connect(b.listen_address)
        b.advance_to(2)
        ch.send(env(epoch=0, payload=b"stale"))
        notice = ch.wait_reject(timeout=5)
        assert notice is not None
        assert notice["envelope_epoch"] == 0
        assert notice["receiver_epoch"] == 2
        assert b.stale_rejected_count == 1
        with pytest.raises(TimeoutError):
            b.recv(timeout=0.2)
    finally:
        a.close()
        b.close()


def test_future_epoch_is_buffered_until_advance():
    a, b = make_endpoint("a", 0), make_endpoint("b", 0)
    try:
        ch = a.connect(b.listen_address)
        ch.send(env(epoch=5, payload=b"early"))
        got = b.recv(match_fields(epoch=5), timeout=5)
        assert got.payload == b"early"
    finally:
        a.close()
        b.close()


def test_advance_to_rejects_buffered_envelopes():
    a, b = make_endpoint("a", 0), make_endpoint("b", 0)
    try:
        ch = a.connect(b.listen_address)
        ch.send(env(epoch=0, payload=b"old-traffic"))
        ch.send(env(epoch=0, payload=b"probe"))
        # A channel delivers in order: once the probe is here, so is the rest.
        b.recv(lambda e: e.payload == b"probe", timeout=5)
        b.advance_to(3)
        notice = ch.wait_reject(timeout=5)
        assert notice is not None and notice["envelope_epoch"] == 0
        assert b.stale_rejected_count == 1
        with pytest.raises(TimeoutError):
            b.recv(timeout=0.2)
    finally:
        a.close()
        b.close()


def test_fence_raised_between_cut_and_buffer_still_rejects(monkeypatch):
    # The fence rises after the loop has cut a frame and before it buffers
    # the read: the envelope is checked where it is buffered, so it is
    # rejected with a notice instead of delivered.
    a, b = make_endpoint("a", 1), make_endpoint("b", 1)
    try:
        ch = a.connect(b.listen_address)
        cut_frames = wire.cut_frames

        def cut_then_raise_fence(buf):
            yield from cut_frames(buf)
            b.advance_to(2)

        monkeypatch.setattr(wire, "cut_frames", cut_then_raise_fence)
        ch.send(env(epoch=1, payload=b"in-flight"))
        with pytest.raises(DeadlineExceeded):
            b.recv(None, 1.0)
        notice = ch.wait_reject(timeout=5)
        assert notice is not None and notice["receiver_epoch"] == 2
        assert b.stale_rejected_count == 1
    finally:
        a.close()
        b.close()


def test_handshake_from_stale_dialer_is_fencing_rejected():
    from egroup.errors import FencingError
    a, b = make_endpoint("a", 0), make_endpoint("b", 4)
    try:
        with pytest.raises(FencingError):
            a.connect(b.listen_address)
    finally:
        a.close()
        b.close()


@pytest.mark.parametrize("wait, outcome", [
    (lambda endpoint, channel: endpoint.recv(timeout=10), ShutdownError),
    (lambda endpoint, channel: endpoint.await_channel("c", 10), ShutdownError),
    (lambda endpoint, channel: channel.wait_reject(10), None),
], ids=["recv", "await_channel", "wait_reject"])
def test_recv_raises_shutdown_when_endpoint_closes(wait, outcome):
    # close() wakes a waiter of every kind at once, not at its timeout.
    a, b = make_endpoint("a", 0), make_endpoint("b", 0)
    channel = a.connect(b.listen_address)
    result = {}

    def waiter():
        try:
            result["outcome"] = wait(a, channel)
        except ShutdownError:
            result["outcome"] = ShutdownError
        result["ended"] = time.monotonic()

    t = threading.Thread(target=waiter)
    t.start()
    try:
        time.sleep(0.2)
        closed = time.monotonic()
        a.close()
        t.join(5)
    finally:
        a.close()
        b.close()
    assert not t.is_alive()
    assert result["outcome"] is outcome
    assert result["ended"] - closed < 1.0


def socket_count():
    """Open socket descriptors of this process."""
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}").startswith("socket:")
        except OSError:
            pass  # the listing's own descriptor, closed since
    return count


# A socket left for the garbage collector to close is a leak as well.
@pytest.mark.filterwarnings("error::ResourceWarning",
                            "error::pytest.PytestUnraisableExceptionWarning")
def test_dials_racing_close_end_and_leave_no_socket():
    # Eight threads dial eight peers while the dialing endpoint closes at
    # staggered points: a dial that loses the race sees ShutdownError, and
    # the sockets of all of them are closed once the endpoints are.
    baseline = socket_count()
    for trial in range(30):
        a = make_endpoint("a")
        peers = [make_endpoint(f"p{i}") for i in range(8)]
        outcomes = [None] * len(peers)

        def dial(i):
            try:
                outcomes[i] = a.connect(peers[i].listen_address, timeout=10)
            except ShutdownError as exc:
                outcomes[i] = exc

        threads = [threading.Thread(target=dial, args=(i,))
                   for i in range(len(peers))]
        for t in threads:
            t.start()
        time.sleep(trial % 10 * 0.001)
        a.close()
        deadline = wire.Deadline.of(10)
        for t in threads:
            t.join(deadline.remaining())
        for peer in peers:
            peer.close()
        assert not any(t.is_alive() for t in threads)
        assert all(isinstance(o, (transport.Channel, ShutdownError))
                   for o in outcomes), outcomes
    deadline = wire.Deadline.of(5)
    while socket_count() > baseline and not deadline.expired():
        time.sleep(0.05)
    assert socket_count() <= baseline


def test_fencing_state_tracks_current_and_retired():
    f = make_endpoint("f")
    try:
        assert f.fence == -1
        assert not f.is_stale(0)
        f.advance_to(3)
        assert f.fence == 3
        assert f.is_stale(2) and not f.is_stale(3) and not f.is_stale(4)
        f.advance_to(1)  # never moves backwards
        assert f.fence == 3
        f.retire(5)
        assert f.is_retired(5) and f.is_stale(5)
        assert not f.is_stale(6)
        with pytest.raises(AttributeError):
            f.fence = 0  # read-only: only advance_to moves it
    finally:
        f.close()


def test_recv_timeout_is_a_deadline_under_unrelated_traffic():
    # Non-matching envelopes keep arriving at 10 Hz; the wait must still end
    # at its deadline instead of restarting on every arrival.
    a, b = make_endpoint("a", 0), make_endpoint("b", 0)
    stop = threading.Event()
    chatter = None
    try:
        ch = a.connect(b.listen_address)

        def chat():
            for _ in range(30):  # bounded, so a broken deadline fails, not hangs
                if stop.wait(0.1):
                    return
                ch.send(env(tag=21))

        chatter = threading.Thread(target=chat, daemon=True)
        chatter.start()
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            b.recv(match_fields(tag=99), timeout=0.5)
        assert time.monotonic() - start < 1.5
    finally:
        stop.set()
        if chatter is not None:
            chatter.join(5)
            assert not chatter.is_alive()
        a.close()
        b.close()


def test_one_thread_per_endpoint_none_per_channel():
    before = set(threading.enumerate())
    eps = [make_endpoint(f"m{i}", 0) for i in range(4)]
    try:
        for i, x in enumerate(eps):
            for y in eps[i + 1:]:
                x.connect(y.listen_address)
        for x in eps:
            for y in eps:
                if y is not x:
                    assert x.await_channel(y.identity, 5) is not None
        added = set(threading.enumerate()) - before
        assert len(added) == len(eps)
        assert sorted(t.name for t in added) == [f"io-m{i}" for i in range(4)]
    finally:
        for x in eps:
            x.close()
    assert not (set(threading.enumerate()) - before)


def test_stalled_dialer_blocks_nobody_and_expires(monkeypatch):
    # A raw dialer that sends half a length prefix and stalls must not hold
    # up traffic on the same endpoint, and is cut off at the handshake
    # deadline.
    monkeypatch.setattr(transport, "HANDSHAKE_TIMEOUT", 1.0)
    a, b = make_endpoint("a", 0), make_endpoint("b", 0)
    raw = socket.create_connection(parse_address(b.listen_address), 5)
    try:
        raw.sendall(b"\x00\x00")
        start = time.monotonic()
        ch = a.connect(b.listen_address)
        ch.send(env(payload=b"ping"))
        assert b.recv(timeout=5).payload == b"ping"
        b.channel_to("a").send(env(payload=b"pong"))
        assert a.recv(timeout=5).payload == b"pong"
        assert time.monotonic() - start < 0.5
        raw.settimeout(5)
        assert raw.recv(1) == b""  # closed by the endpoint, not by us
        assert time.monotonic() - start < 3.0
    finally:
        raw.close()
        a.close()
        b.close()


def test_malformed_frame_closes_only_that_channel():
    a, b, c = (make_endpoint(name, 0) for name in ("a", "b", "c"))
    try:
        bad = a.connect(b.listen_address)
        good = c.connect(b.listen_address)
        assert b.await_channel("a", 5) is not None
        # A length prefix shorter than the fixed header is corruption.
        bad.sock.sendall(wire.LENGTH_PREFIX.pack(3))
        deadline = time.monotonic() + 5
        while (b.channel_to("a") is not None or not bad.closed) \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        assert b.channel_to("a") is None
        assert bad.closed
        good.send(env(payload=b"still-here"))
        assert b.recv(timeout=5).payload == b"still-here"
        b.channel_to("c").send(env(payload=b"and-back"))
        assert c.recv(timeout=5).payload == b"and-back"
    finally:
        a.close()
        b.close()
        c.close()
