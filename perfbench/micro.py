"""In-process timings of each layer's public functions.

Every measurement runs in the benchmark's own process (apart from the child
interpreters the spawner measurement starts) and checks its own result
against an expectation computed here. ``scale`` multiplies the repetition
counts; the smoke mode passes a small one.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import threading
import time

from egroup import transport, wire
from egroup.collectives import SplitKey, allgather, barrier, split
from egroup.groups import RetirementToken
from egroup.node import Node
from egroup.scaling import init_new_process, scale_in, scale_out
from egroup.spawner import BootstrapTicket, ThreadLauncher
from egroup.wire import Envelope

from fleet import CheckFailed, require

JOIN_TIMEOUT = 60.0
TAG = 40  # application tags start at wire.TAG_COLL_BASE


def _median_batch_us(fn, count, batches=5):
    """Median over ``batches`` of the mean per-call time of ``fn``, in us."""
    per_call = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(count):
            fn()
        per_call.append((time.perf_counter() - start) / count * 1e6)
    return statistics.median(per_call)


# -- wire ------------------------------------------------------------------------

def measure_wire(scale):
    env = Envelope(epoch=7, tag=TAG, src_rank=3, dst_rank=1,
                   payload=bytes(range(64)))
    frame = wire.pack(env)
    require(wire.unpack(frame) == env, "wire.unpack(wire.pack(e)) != e")
    require(len(frame) == wire.LENGTH_PREFIX.size + wire.HEADER.size + 64,
            f"64 B payload packed into {len(frame)} bytes")
    count = 2000 * scale
    return {
        "wire.pack_us": (_median_batch_us(lambda: wire.pack(env), count), "us"),
        "wire.unpack_us": (_median_batch_us(lambda: wire.unpack(frame), count),
                           "us"),
    }


# -- transport -------------------------------------------------------------------

def _env(tag, seq):
    return Envelope(epoch=0, tag=tag, src_rank=0, dst_rank=1,
                    payload=seq.to_bytes(8, "big"))


def _seq(envelope):
    return int.from_bytes(envelope.payload, "big")


def _tag_is(tag):
    return lambda e: e.tag == tag


def _pair():
    a = transport.listen("127.0.0.1:0", "bench-a")
    b = transport.listen("127.0.0.1:0", "bench-b")
    a_to_b = a.connect(b.listen_address, expect_id="bench-b")
    b_to_a = b.await_channel("bench-a", 10.0)
    require(b_to_a is not None and a_to_b.peer_id == "bench-b",
            "endpoint pair did not connect")
    return a, b, a_to_b, b_to_a


def _in_thread(fn):
    errors = []

    def run():
        try:
            fn()
        except BaseException as exc:  # reported by join() below
            errors.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()

    def join():
        thread.join(JOIN_TIMEOUT)
        if thread.is_alive():
            raise CheckFailed("measurement thread did not finish")
        if errors:
            raise errors[0]
    return join


def _wait_buffered(endpoint, count, timeout=20.0):
    """Block until ``count`` envelopes sit in ``endpoint``'s receive buffer,
    peeking with a predicate that matches nothing."""
    seen = set()

    def peek(envelope):
        seen.add(id(envelope))
        return False

    deadline = time.monotonic() + timeout
    while len(seen) < count:
        require(time.monotonic() < deadline,
                f"only {len(seen)} of {count} envelopes arrived")
        try:
            endpoint.recv(peek, timeout=0.01)
        except TimeoutError:
            pass


def measure_transport(scale):
    a, b, a_to_b, b_to_a = _pair()
    try:
        rounds = 200 * scale

        def echo():
            for _ in range(rounds * 5):
                env = b.recv(_tag_is(TAG), timeout=JOIN_TIMEOUT)
                b_to_a.send(_env(TAG + 1, _seq(env)))

        join = _in_thread(echo)
        rtts = []
        for batch in range(5):
            start = time.perf_counter()
            for i in range(rounds):
                seq = batch * rounds + i
                a_to_b.send(_env(TAG, seq))
                got = _seq(a.recv(_tag_is(TAG + 1), timeout=JOIN_TIMEOUT))
                require(got == seq, f"echo {got} for ping {seq}")
            rtts.append((time.perf_counter() - start) / rounds * 1e6)
        join()

        count = 2000 * scale
        received = []

        def sink():
            for _ in range(count):
                received.append(_seq(b.recv(_tag_is(TAG + 2),
                                            timeout=JOIN_TIMEOUT)))

        join = _in_thread(sink)
        start = time.perf_counter()
        for seq in range(count):
            a_to_b.send(_env(TAG + 2, seq))
        join()
        rate = count / (time.perf_counter() - start)
        require(received == list(range(count)),
                "one-way messages lost or reordered")

        backlog = 5000
        for seq in range(backlog):
            a_to_b.send(_env(TAG + 3, seq))
        waits = []
        for rep in range(3 + 2 * scale):
            a_to_b.send(_env(TAG + 4, rep))
            _wait_buffered(b, backlog + 1)
            start = time.perf_counter()
            got = b.recv(_tag_is(TAG + 4), timeout=JOIN_TIMEOUT)
            waits.append((time.perf_counter() - start) * 1e3)
            require(_seq(got) == rep, f"backlog recv got {_seq(got)}, sent {rep}")
        drained = [_seq(b.recv(_tag_is(TAG + 3), timeout=JOIN_TIMEOUT))
                   for _ in range(backlog)]
        require(drained == list(range(backlog)),
                "non-matching backlog lost or reordered")
    finally:
        a.close()
        b.close()

    return {
        "transport.rtt_us": (statistics.median(rtts), "us"),
        "transport.msgs_per_s": (rate, "1/s"),
        "transport.backlog_recv_ms": (statistics.median(waits), "ms"),
        "transport.connect_ms": (_measure_connect(5 + 5 * scale), "ms"),
        "transport.threads_per_channel": (_threads_per_channel(8), "threads"),
    }


def _measure_connect(count):
    target = transport.listen("127.0.0.1:0", "bench-target")
    times = []
    try:
        for i in range(count):
            dialer = transport.listen("127.0.0.1:0", f"bench-dialer{i}")
            try:
                start = time.perf_counter()
                channel = dialer.connect(target.listen_address,
                                         expect_id="bench-target")
                times.append((time.perf_counter() - start) * 1e3)
                require(channel.peer_id == "bench-target" and not channel.closed,
                        "connect returned a wrong or closed channel")
            finally:
                dialer.close()
    finally:
        target.close()
    return statistics.median(times)


PEER_HOST = """
import sys
from egroup import transport
peers = [transport.listen("127.0.0.1:0", f"peer{i}") for i in range(int(sys.argv[1]))]
print(" ".join(p.listen_address for p in peers), flush=True)
sys.stdin.read()
"""


def _own_threads():
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise CheckFailed("/proc/self/status has no Threads line")


def _threads_per_channel(k):
    """Threads an endpoint gains per channel: its peers live in another
    process so that only this endpoint's threads are counted."""
    host = subprocess.Popen([sys.executable, "-c", PEER_HOST, str(k)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    endpoint = None
    try:
        addresses = host.stdout.readline().split()
        require(len(addresses) == k, f"peer host printed {addresses}")
        endpoint = transport.listen("127.0.0.1:0", "bench-hub")
        time.sleep(0.05)
        before = _own_threads()
        for i, address in enumerate(addresses):
            channel = endpoint.connect(address, expect_id=f"peer{i}")
            require(channel.peer_id == f"peer{i}", "connected to the wrong peer")
        time.sleep(0.05)
        return (_own_threads() - before) / k
    finally:
        if endpoint is not None:
            endpoint.close()
        host.stdin.close()
        host.wait(10)


# -- collectives -----------------------------------------------------------------

class Cluster:
    """n Nodes in this process, one bound group each at epoch 0."""

    def __init__(self, n, hosts=None):
        self.nodes = [Node(host_label=hosts[i] if hosts else f"h{i}")
                      for i in range(n)]
        roster = tuple(node.descriptor() for node in self.nodes)
        self.groups = [node.make_group(0, roster, i)
                       for i, node in enumerate(self.nodes)]

    def run(self, fn):
        """Run ``fn(group)`` on one thread per member; results in rank order."""
        results = [None] * len(self.groups)
        joins = []
        for i, group in enumerate(self.groups):
            def member(i=i, group=group):
                results[i] = fn(group)
            joins.append(_in_thread(member))
        for join in joins:
            join()
        return results

    def close(self):
        for node in self.nodes:
            node.close()


def _timed_rounds(cluster, step, rounds, warmup=3):
    """Each member runs ``step(group, round)`` in lockstep; rank 0's time per
    round (after ``warmup`` rounds that open channels) in ms."""
    def member(group):
        times = []
        for r in range(warmup + rounds):
            start = time.perf_counter()
            group = step(group, r)
            times.append((time.perf_counter() - start) * 1e3)
        return times[warmup:]
    return statistics.median(cluster.run(member)[0])


def _allgather_ms(n, rounds):
    cluster = Cluster(n)
    try:
        blocks = [f"<{rank:06d}>".encode() for rank in range(n)]
        expected = b"".join(blocks)

        def step(group, r):
            out = allgather(group, blocks[group.my_rank])
            require(out == expected, f"allgather at n={n} returned {out!r}")
            return group
        return _timed_rounds(cluster, step, rounds)
    finally:
        cluster.close()


def _barrier_ms(n, rounds):
    cluster = Cluster(n)
    try:
        def step(group, r):
            barrier(group)
            return group
        return _timed_rounds(cluster, step, rounds)
    finally:
        cluster.close()


def _split_ms(n, rounds, rng):
    cluster = Cluster(n)
    try:
        keys = [[rng.randrange(4) for _ in range(n)] for _ in range(rounds + 3)]

        def step(group, r):
            new = split(group, SplitKey(color=0, key=keys[r][group.my_rank]))
            order = sorted(range(n), key=lambda old: (keys[r][old], old))
            require(new.epoch == group.epoch + 1
                    and new.my_rank == order.index(group.my_rank)
                    and [m.incarnation_id for m in new.roster]
                    == [group.roster[old].incarnation_id for old in order],
                    f"split round {r} gave rank {new.my_rank} at epoch "
                    f"{new.epoch}")
            return new
        return _timed_rounds(cluster, step, rounds)
    finally:
        cluster.close()


def measure_collectives(scale, rng):
    rounds = 10 * scale
    return {
        "collectives.allgather_ms.n4": (_allgather_ms(4, rounds), "ms"),
        "collectives.allgather_ms.n16": (_allgather_ms(16, rounds), "ms"),
        "collectives.barrier_ms.n16": (_barrier_ms(16, rounds), "ms"),
        "collectives.split_ms.n16": (_split_ms(16, rounds, rng), "ms"),
    }


# -- scaling ---------------------------------------------------------------------

def _scale_out_threads(n, delta):
    """One scale_out of n+delta with children as threads; rank 0's time."""
    children = {}
    lock = threading.Lock()

    def child(env):
        ticket = BootstrapTicket.from_env(env)
        node = Node(host_label=ticket.host_label)
        with lock:
            children[ticket.child_index] = node
        group = init_new_process(node=node, ticket=ticket)
        with lock:
            children[ticket.child_index] = group

    cluster = Cluster(n)
    try:
        def member(group):
            launcher = ThreadLauncher(child) if group.my_rank == 0 else None
            start = time.perf_counter()
            new = scale_out(group, delta, "-", launcher=launcher)
            return (time.perf_counter() - start) * 1e3, new

        results = cluster.run(member)
        old_ids = [m.incarnation_id for m in cluster.groups[0].roster]
        deadline = time.monotonic() + JOIN_TIMEOUT
        while sum(not isinstance(c, Node) for c in children.values()) < delta:
            require(time.monotonic() < deadline, "thread children did not join")
            time.sleep(0.005)
        for rank, (_, new) in enumerate(results):
            require(new.my_rank == rank and new.size() == n + delta
                    and new.epoch == 1
                    and [m.incarnation_id for m in new.roster[:n]] == old_ids,
                    f"member {rank} after scale_out: rank {new.my_rank}, "
                    f"size {new.size()}")
        for index, group in children.items():
            require(group.my_rank == n + index
                    and group.roster == results[0][1].roster,
                    f"child {index} joined at rank {group.my_rank}")
        return results[0][0]
    finally:
        cluster.close()
        for c in children.values():
            (c if isinstance(c, Node) else c.node).close()


def _scale_in_threads(n, delta, per_host):
    hosts = [f"host{i // per_host}" for i in range(n)]
    cutoff = n - delta
    cluster = Cluster(n, hosts)
    try:
        def member(group):
            start = time.perf_counter()
            outcome = scale_in(group, group.my_rank >= cutoff)
            return (time.perf_counter() - start) * 1e3, outcome

        results = cluster.run(member)
        for rank, (_, outcome) in enumerate(results):
            alone = not any(hosts[j] == hosts[rank] for j in range(cutoff))
            require(outcome.can_terminate_host == alone,
                    f"member {rank} on {hosts[rank]}: can_terminate "
                    f"{outcome.can_terminate_host}, expected {alone}")
            new = outcome.new_group
            if rank >= cutoff:
                require(isinstance(new, RetirementToken) and new.epoch == 1,
                        f"removed member {rank} got {new}")
            else:
                require(new.my_rank == rank and new.size() == cutoff
                        and new.epoch == 1,
                        f"remaining member {rank} got rank {new.my_rank}")
        return results[0][0]
    finally:
        cluster.close()


def measure_scaling(scale):
    reps = 2 + scale
    return {
        "scaling.scale_out_ms.threads": (statistics.median(
            _scale_out_threads(4, 4) for _ in range(reps)), "ms"),
        "scaling.scale_in_ms.threads": (statistics.median(
            _scale_in_threads(16, 4, 4) for _ in range(reps)), "ms"),
    }


# -- spawner ---------------------------------------------------------------------

def measure_spawner(scale):
    """Child interpreter start: bare, and importing the worker module."""
    bare, worker = [], []
    for _ in range(3 + 2 * scale):
        for code, times in (("pass", bare), ("import egroup.worker", worker)):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", code])
            times.append((time.perf_counter() - start) * 1e3)
            require(proc.returncode == 0, f"python -c {code!r} failed")
    return {
        "spawner.interpreter_ms": (statistics.median(bare), "ms"),
        "spawner.worker_import_ms": (statistics.median(worker), "ms"),
    }


def measure_all(scale, seed):
    rng = random.Random(f"micro/{seed}")
    metrics = {}
    for measure in (measure_wire, measure_transport, measure_spawner,
                    measure_scaling):
        metrics.update(measure(scale))
    metrics.update(measure_collectives(scale, rng))
    return metrics
