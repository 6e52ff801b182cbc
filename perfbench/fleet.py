"""Workload runner: drives real worker fleets through egroup.driver.Driver.

The load is a closed loop from one driver thread with one command in flight
at a time. Every command is timed from outside with ``time.monotonic()`` (the
system-wide clock the traced workers also use) and every reply is checked
against expectations the benchmark computes itself from the driver's member
list, never against stored output.
"""

from __future__ import annotations

import hashlib
import os
import random
import signal
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

from egroup.driver import Driver


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's expectation."""


class OpFailed(Exception):
    """A driver command raised; the fleet is in an unknown state."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Workload:
    name: str
    initial: int
    delta: int  # 0: no scaling, back-to-back allgathers only


WORKLOADS = {w.name: w for w in (
    Workload("grow-shrink", initial=4, delta=4),
    Workload("wide-grow-one", initial=16, delta=1),
    Workload("steady-allgather", initial=8, delta=0),
)}

# set-ups per run; setup_s is their median
SETUPS = 5
# back-to-back allgathers between two checks on steady-allgather
STEADY_ROUND = 50
RETIRE_TIMEOUT = 20.0


@dataclass(frozen=True)
class Inputs:
    """What the seed decides: the host-label packing and, per cycle, how
    many steady allgathers follow the first one."""

    slots_per_host: int
    steady_counts: tuple

    def steady_count(self, cycle: int) -> int:
        return self.steady_counts[cycle % len(self.steady_counts)]


def make_inputs(workload: Workload, seed: int) -> Inputs:
    rng = random.Random(f"{workload.name}/{seed}")
    return Inputs(slots_per_host=rng.choice((1, 2, 4, 8)),
                  steady_counts=tuple(rng.randint(3, 6) for _ in range(64)))


# -- /proc readings --------------------------------------------------------------

def descendants(pid: int = None) -> list:
    """Pids of every live descendant of ``pid`` (default: this process)."""
    found = []
    stack = [os.getpid() if pid is None else pid]
    while stack:
        parent = stack.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except (FileNotFoundError, ProcessLookupError):
            continue
        for task in tasks:
            try:
                with open(f"/proc/{parent}/task/{task}/children") as f:
                    kids = [int(k) for k in f.read().split()]
            except (FileNotFoundError, ProcessLookupError):
                continue
            found.extend(kids)
            stack.extend(kids)
    return found


def _status_field(pid: int, name: str, filename: str = "status") -> float:
    with open(f"/proc/{pid}/{filename}") as f:
        for line in f:
            if line.startswith(name + ":"):
                return float(line.split()[1])
    raise CheckFailed(f"/proc/{pid}/{filename} has no {name} line")


def threads_and_pss(pids) -> tuple:
    """(sum of Threads, sum of Pss in MB) over ``pids``."""
    threads = sum(_status_field(p, "Threads") for p in pids)
    pss_kb = sum(_status_field(p, "Pss", "smaps_rollup") for p in pids)
    return int(threads), pss_kb / 1024.0


def wait_for_process_count(expected: int, timeout: float = RETIRE_TIMEOUT):
    deadline = time.monotonic() + timeout
    while True:
        live = [p for p in descendants() if not _is_zombie(p)]
        if len(live) == expected:
            return
        if time.monotonic() > deadline:
            raise CheckFailed(f"fleet has {len(live)} processes, expected "
                              f"{expected} after the retirees exit")
        time.sleep(0.01)


def _is_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except (FileNotFoundError, ProcessLookupError):
        return True


def reap_all(timeout: float = 10.0) -> None:
    """Wait until no descendant is left, killing any that outstays ``timeout``."""
    deadline = time.monotonic() + timeout
    while True:
        live = [p for p in descendants() if not _is_zombie(p)]
        if not live:
            break
        if time.monotonic() > deadline:
            for pid in live:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + timeout
        time.sleep(0.02)
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass


# -- independent expectations ------------------------------------------------------

def expected_digest(workers) -> str:
    """SHA-256 over ``id|host|address`` lines of the driver's members in rank
    order, computed here rather than by egroup.groups."""
    h = hashlib.sha256()
    for w in workers:
        m = w.member
        h.update(f"{m.incarnation_id}|{m.host_label}|{m.listen_address}\n"
                 .encode())
    return h.hexdigest()


def check_allgather(replies: dict, driver: Driver) -> None:
    ids = [h.incarnation_id for h in driver.workers]
    require(sorted(replies) == sorted(ids),
            f"allgather replies from {sorted(replies)}, fleet is {sorted(ids)}")
    for member, reply in replies.items():
        require(reply["ids"] == ids,
                f"{member} gathered {reply['ids']}, fleet in rank order is {ids}")


def check_digests(driver: Driver, rec: "Recorder") -> None:
    digests = rec.op("digest", driver.digests)
    want = expected_digest(driver.workers)
    require(digests == {want},
            f"members report roster digests {sorted(digests)}, expected {want}")


def check_dense(driver: Driver, size: int) -> None:
    ranks = [h.rank for h in driver.workers]
    require(ranks == list(range(size)), f"fleet ranks {ranks}, expected 0..{size - 1}")


# -- the run ---------------------------------------------------------------------

@dataclass
class Recorder:
    """Times driver commands and counts them; ``windows`` keeps each command's
    (kind, start, end) so traced spans can be matched to it."""

    samples: dict = field(default_factory=lambda: defaultdict(list))
    windows: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def op(self, kind, fn, *args, **kwargs):
        self.attempted += 1
        start = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            raise OpFailed(f"{kind}: {type(exc).__name__}: {exc}") from exc
        end = time.monotonic()
        self.samples[kind].append((end - start) * 1e3)
        self.windows.append((kind, start, end))
        return result


def start_fleet(workload: Workload, inputs: Inputs, rec: Recorder,
                worker_command=None) -> Driver:
    """start_fleet(n) plus the first barrier, timed at the driver."""
    driver = Driver(worker_command=worker_command,
                    slots_per_host=inputs.slots_per_host)
    try:
        start = time.monotonic()
        rec.op("start_fleet", driver.start_fleet, workload.initial)
        rec.op("first_barrier", driver.barrier)
        rec.samples["setup_s"].append(time.monotonic() - start)
        check_dense(driver, workload.initial)
        require(driver.epoch == 0, f"new fleet at epoch {driver.epoch}")
        check_digests(driver, rec)
    except BaseException:
        close_fleet(driver)
        raise
    return driver


def close_fleet(driver: Driver) -> None:
    """Stop every worker and wait for it, so traced workers write their spans
    before anything is terminated."""
    try:
        if driver.workers:
            driver.stop_all()
            driver.wait_for_exit(timeout=10.0)
    finally:
        driver.close()
        reap_all()


def sample_fleet(rec: Recorder, size: int) -> None:
    """Threads and PSS over the whole fleet, after a settling barrier."""
    wait_for_process_count(size)
    threads, pss = threads_and_pss(descendants())
    rec.samples["fleet_threads"].append(threads)
    rec.samples["fleet_pss_mb"].append(pss)


def scale_cycle(driver: Driver, workload: Workload, inputs: Inputs,
                rec: Recorder, cycle: int) -> None:
    """Grow by delta, first allgather, steady allgathers, shrink by delta."""
    n, delta = workload.initial, workload.delta
    before = [h.incarnation_id for h in driver.workers]
    epoch = driver.epoch

    reply = rec.op("scale_out", driver.scale_out, delta)
    check_dense(driver, n + delta)
    require([h.incarnation_id for h in driver.workers[:n]] == before,
            "original members changed rank or id across scale_out")
    require(driver.epoch == epoch + 1
            and all(h.epoch == epoch + 1 for h in driver.workers)
            and reply["epoch"] == epoch + 1,
            f"scale_out from epoch {epoch} did not land every member at "
            f"{epoch + 1}")
    require(reply["rank"] == 0 and reply["size"] == n + delta,
            f"root reply after scale_out: {reply}")

    check_allgather(rec.op("first_allgather", driver.allgather_ids), driver)
    for _ in range(inputs.steady_count(cycle)):
        check_allgather(rec.op("allgather", driver.allgather_ids), driver)

    rec.op("barrier", driver.barrier)
    sample_fleet(rec, n + delta)
    check_digests(driver, rec)

    reply = rec.op("scale_in", driver.scale_in, delta)
    require(reply["can_terminate"] is False,
            "the remaining root reported can_terminate true")
    require(reply["rank"] == 0 and reply["size"] == n
            and reply["epoch"] == epoch + 2 and driver.epoch == epoch + 2,
            f"root reply after scale_in: {reply}")
    check_dense(driver, n)
    require([h.incarnation_id for h in driver.workers] == before,
            "scale_in did not leave exactly the original members")
    wait_for_process_count(n)


def steady_round(driver: Driver, rec: Recorder) -> None:
    for _ in range(STEADY_ROUND):
        check_allgather(rec.op("allgather", driver.allgather_ids), driver)


def run_workload(workload: Workload, inputs: Inputs, seconds: float,
                 rec: Recorder, worker_command=None,
                 setups: int = SETUPS) -> None:
    """Set up ``setups`` times, then measure whole cycles for ``seconds``
    (at least one)."""
    driver = None
    try:
        for _ in range(setups):
            if driver is not None:
                close_fleet(driver)
            driver = start_fleet(workload, inputs, rec, worker_command)
        if workload.delta == 0:
            rec.op("barrier", driver.barrier)
            sample_fleet(rec, workload.initial)
        deadline = time.monotonic() + seconds
        cycle = 0
        while cycle == 0 or time.monotonic() < deadline:
            if workload.delta:
                scale_cycle(driver, workload, inputs, rec, cycle)
            else:
                steady_round(driver, rec)
            cycle += 1
    finally:
        if driver is not None:
            close_fleet(driver)


def ping_fleet(workload: Workload, inputs: Inputs, count: int) -> float:
    """Median fleet-wide ping on an untraced fleet of the workload's size."""
    rec = Recorder()
    driver = start_fleet(workload, inputs, rec)
    try:
        for _ in range(count):
            replies = rec.op("ping", driver.ping)
            require(sorted(r["rank"] for r in replies.values())
                    == list(range(workload.initial)), "ping ranks not dense")
    finally:
        close_fleet(driver)
    return statistics.median(rec.samples["ping"])


def idle_worker() -> tuple:
    """(Threads, PSS MB) of one idle worker."""
    rec = Recorder()
    driver = start_fleet(Workload("idle", 1, 0), Inputs(1, (0,)), rec)
    try:
        rec.op("barrier", driver.barrier)
        pids = descendants()
        require(len(pids) == 1, f"one-worker fleet has {len(pids)} processes")
        return threads_and_pss(pids)
    finally:
        close_fleet(driver)
