"""Shared helpers: in-process clusters (one thread per member) and a runner
that surfaces member exceptions and deadlocks as test failures."""

from __future__ import annotations

import threading
from contextlib import contextmanager

import pytest

from egroup import Node

JOIN_TIMEOUT = 60.0


@contextmanager
def cluster(n, hosts=None, epoch=0):
    """Yield n bound groups sharing one roster, one Node per member."""
    nodes = []
    try:
        for i in range(n):
            label = hosts[i] if hosts is not None else f"host{i}"
            nodes.append(Node(host_label=label))
        roster = tuple(node.descriptor() for node in nodes)
        groups = [node.make_group(epoch, roster, i)
                  for i, node in enumerate(nodes)]
        yield groups
    finally:
        for node in nodes:
            node.close()


def run_members(target, groups, timeout=JOIN_TIMEOUT):
    """Run ``target(group)`` concurrently for every group; returns results in
    member order. ``target`` may also be a list with one callable per member.
    Raises the first member exception; a hung member fails the test."""
    results = [None] * len(groups)
    errors = []

    def runner(i, group):
        fn = target[i] if isinstance(target, (list, tuple)) else target
        try:
            results[i] = fn(group)
        except BaseException as exc:  # noqa: BLE001 - reported to pytest below
            errors.append((i, exc))

    threads = [threading.Thread(target=runner, args=(i, g), daemon=True)
               for i, g in enumerate(groups)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    stuck = [i for i, t in enumerate(threads) if t.is_alive()]
    if stuck:
        pytest.fail(f"members {stuck} did not finish within {timeout}s "
                    f"(deadlock?); errors so far: {errors}")
    if errors:
        raise errors[0][1]
    return results


class Buffered(Exception):
    pass


def wait_buffered(endpoint, match, timeout=5.0):
    """Block until an envelope satisfying ``match`` is buffered at
    ``endpoint``, and leave it there: the receive's predicate only peeks."""
    def peek(envelope):
        if match(envelope):
            raise Buffered
        return False

    with pytest.raises(Buffered):
        endpoint.recv(peek, timeout)


@pytest.fixture
def two_groups():
    with cluster(2) as groups:
        yield groups


@pytest.fixture
def four_groups():
    with cluster(4) as groups:
        yield groups
