"""Acceptance checks for the scaling library and benchmark.

Run with -s to see one verdict line per criterion:

    python3 -m pytest tests/test_acceptance.py -s

Criteria 1-5 exercise live in-process groups against exact oracles,
criteria 6-8 check timing trends of real subprocess fleets at desk scale,
criterion 9 pins the benchmark's CSV format.
"""

import itertools
import random
import time

import pytest

from egroup import (
    FencingError,
    RetiredGroupError,
    RetirementToken,
    ThreadLauncher,
)
from egroup.bench import (
    BenchConfig,
    BenchRecord,
    SCENARIO_SCALE_IN,
    SCENARIO_SCALE_OUT,
    emit_csv,
    mean_by_delta,
    parse_csv,
    run_scale_in_bench,
    run_scale_out_bench,
)
from egroup.collectives import allgather
from egroup.scaling import host_can_terminate, scale_in, scale_out
from egroup.wire import Envelope

from conftest import cluster, run_members
from test_scaling import ChildWorld


def _verdict(num, name, body):
    """Run one criterion and print exactly one pass/fail line for it."""
    try:
        detail = body()
    except BaseException as exc:
        print(f"[criterion {num}] {name}: FAIL "
              f"({type(exc).__name__}: {exc})", flush=True)
        raise
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: PASS{suffix}", flush=True)


# -- criterion 1: merge rank map ----------------------------------------------

def test_criterion_1_merge_rank_map():
    def body():
        started = time.monotonic()
        shapes = 0
        for n in (1, 2, 4, 8):
            for k in (1, 2, 4):
                world = ChildWorld()
                try:
                    with cluster(n) as groups:
                        def member(group):
                            new = scale_out(
                                group, k, "-",
                                launcher=ThreadLauncher(world.target)
                                if group.my_rank == 0 else None)
                            return (group.my_rank, new.my_rank, new.size())

                        results = run_members(member, groups)
                        world.wait_joined(k)
                        for old_rank, new_rank, size in results:
                            assert new_rank == old_rank, \
                                f"original rank {old_rank} became {new_rank}"
                            assert size == n + k
                        for j, child_group in world.groups.items():
                            assert child_group.my_rank == n + j, \
                                f"child {j} landed at rank " \
                                f"{child_group.my_rank}, wanted {n + j}"
                            assert child_group.size() == n + k
                finally:
                    world.close()
                shapes += 1
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s, limit is 60s"
        return f"{shapes} shapes, every rank exact, {elapsed:.1f}s"

    _verdict(1, "merge rank map", body)


# -- criterion 2: split oracle equivalence ------------------------------------

def test_criterion_2_split_oracle_equivalence():
    def body():
        checked = 0
        for n in range(1, 6):
            for mask in range(2 ** n):
                removing = {i for i in range(n) if mask & (1 << i)}
                with cluster(n) as groups:
                    ids = [g.roster[i].incarnation_id
                           for i, g in enumerate(groups)]
                    # Oracle: survivors keep their old order, ranks are
                    # their positions in that list.
                    survivors = [ids[i] for i in range(n)
                                 if i not in removing]

                    def member(group):
                        out = scale_in(group, group.my_rank in removing)
                        if isinstance(out.new_group, RetirementToken):
                            return ("token", out.new_group.epoch)
                        g = out.new_group
                        return ("group", g.epoch, g.my_rank,
                                [m.incarnation_id for m in g.roster])

                    results = run_members(member, groups)
                    for i in range(n):
                        if i in removing:
                            assert results[i] == ("token", 1), results[i]
                        else:
                            kind, epoch, rank, roster = results[i]
                            assert kind == "group" and epoch == 1
                            assert roster == survivors, \
                                f"membership diverged for rank {i}"
                            assert rank == survivors.index(ids[i]), \
                                f"rank order diverged for rank {i}"
                checked += 1
        return f"{checked} removal assignments, membership and order exact"

    _verdict(2, "split oracle equivalence", body)


# -- criterion 3: host-termination oracle -------------------------------------

def test_criterion_3_host_termination_oracle():
    def body():
        host_names = ("A", "B", "C")
        checked = 0
        for n in range(1, 7):
            for hosts in itertools.product(host_names, repeat=n):
                for mask in range(2 ** n):
                    removing = {i for i in range(n) if mask & (1 << i)}
                    flags = bytes(int(i in removing) for i in range(n))
                    remaining_hosts = {hosts[i] for i in range(n)
                                       if i not in removing}
                    for my_host in host_names:
                        # Oracle: terminate only if nobody staying shares
                        # the host.
                        expected = my_host not in remaining_hosts
                        assert host_can_terminate(hosts, flags,
                                                  my_host) == expected, \
                            (hosts, removing, my_host)
                        checked += 1
                    for i in range(n):
                        if i not in removing:
                            assert not host_can_terminate(
                                hosts, flags, hosts[i]), \
                                "a staying member freed its own host"
        return f"{checked} host queries exact, stayers always pinned"

    _verdict(3, "host-termination oracle", body)


# -- criterion 4: fencing after scale_in --------------------------------------

def test_criterion_4_fencing():
    def body():
        probe_base = 5000
        n = 8
        with cluster(n) as groups:
            ids = [g.roster[i].incarnation_id for i, g in enumerate(groups)]

            # Two removal events give two stale epochs to probe: ranks 6,7
            # leave at epoch 1, then original ranks 3,4,5 at epoch 2.
            def member(group):
                out1 = scale_in(group, group.my_rank >= 6)
                if isinstance(out1.new_group, RetirementToken):
                    return ("removed@1", None)
                g1 = out1.new_group
                out2 = scale_in(g1, g1.my_rank >= 3)
                if isinstance(out2.new_group, RetirementToken):
                    return ("removed@2", g1)
                return ("stayed", g1)

            results = run_members(member, groups)
            removed = {i for i in range(n) if results[i][0] != "stayed"}
            remaining = sorted(set(range(n)) - removed)
            assert removed == {3, 4, 5, 6, 7}

            # Every group-level send to a removed member errors before
            # anything reaches the wire.
            api_errors = 0
            for i in remaining:
                node = groups[i].node
                for dst in removed:
                    with pytest.raises(FencingError):
                        node.send(groups[i], dst, 99, b"stale")
                    api_errors += 1
                g1 = results[i][1]
                for dst_rank in range(3, 6):
                    with pytest.raises(FencingError):
                        node.send(g1, dst_rank, 99, b"stale")
                    api_errors += 1
            # Removed members cannot use their dead handles either.
            for i in removed:
                node = groups[i].node
                kind, g1 = results[i]
                if kind == "removed@1":
                    with pytest.raises(RetiredGroupError):
                        node.send(groups[i], 0, 99, b"stale")
                else:
                    with pytest.raises(FencingError):
                        node.send(groups[i], 0, 99, b"stale")
                    with pytest.raises(RetiredGroupError):
                        node.send(g1, 0, 99, b"stale")
                api_errors += 1

            # 1,000 randomized wire-level probes at stale epochs: each one
            # must come back rejected, none may be delivered.
            rng = random.Random(20240817)
            before = sum(groups[i].node.endpoint.stale_rejected_count
                         for i in removed)
            rejected = 0
            for p in range(1000):
                src = rng.choice(remaining)
                dst = rng.choice(sorted(removed))
                stale_limit = groups[dst].node.endpoint.fence
                epoch = rng.randrange(stale_limit)
                tag = probe_base + p
                payload = bytes(rng.randrange(256)
                                for _ in range(rng.randrange(64)))
                channel = groups[src].node.channel_to(groups[dst].roster[dst])
                channel.send(Envelope(epoch=epoch, tag=tag, src_rank=src,
                                      dst_rank=dst, payload=payload))
                deadline = time.monotonic() + 10
                notice = None
                while time.monotonic() < deadline:
                    notice = channel.wait_reject(
                        timeout=max(0.05, deadline - time.monotonic()))
                    if notice is not None and notice["tag"] == tag:
                        break
                assert notice is not None and notice["tag"] == tag, \
                    f"probe {p} was not rejected"
                assert notice["envelope_epoch"] == epoch
                assert notice["receiver_epoch"] > epoch
                rejected += 1

            after = sum(groups[i].node.endpoint.stale_rejected_count
                        for i in removed)
            assert rejected == 1000
            assert after - before == 1000, \
                f"receivers rejected {after - before} probes, expected 1000"
            # Nothing stale sits in any removed member's delivery buffer.
            for i in removed:
                node = groups[i].node
                for env, _ in node.endpoint._buffer:
                    assert env.epoch >= node.endpoint.fence
                    assert not (probe_base <= env.tag < probe_base + 1000), \
                        "a probe payload was delivered"
        return (f"{api_errors} dead-handle sends errored, "
                f"1000/1000 probes rejected, zero delivered")

    _verdict(4, "fencing after scale_in", body)


# -- criterion 5: immediate connectivity --------------------------------------

def test_criterion_5_immediate_connectivity():
    def body():
        n, k = 4, 4
        width = 128
        elapsed = {}
        distinct = {}

        def gather_now(group):
            started = time.monotonic()
            block = group.descriptor().incarnation_id.encode().ljust(
                width, b"\x00")
            out = allgather(group, block)
            took = time.monotonic() - started
            ids = {out[i:i + width].rstrip(b"\x00")
                   for i in range(0, len(out), width)}
            elapsed[group.my_rank] = took
            distinct[group.my_rank] = len(ids)

        world = ChildWorld(script=gather_now)
        try:
            with cluster(n) as groups:
                def member(group):
                    new = scale_out(group, k, "-",
                                    launcher=ThreadLauncher(world.target)
                                    if group.my_rank == 0 else None)
                    gather_now(new)
                    return True

                run_members(member, groups)
                world.wait_joined(k)
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline and len(elapsed) < n + k:
                    time.sleep(0.01)
                assert sorted(elapsed) == list(range(n + k))
                worst = max(elapsed.values())
                assert worst < 1.0, f"slowest allgather took {worst:.3f}s"
                assert all(d == n + k for d in distinct.values()), \
                    f"some member saw {distinct} ids, wanted {n + k}"
        finally:
            world.close()
        return (f"all {n + k} members allgathered {n + k} ids, "
                f"worst {worst * 1000:.0f}ms")

    _verdict(5, "immediate connectivity", body)


# -- criteria 6-8: desk-scale timing trends -----------------------------------

@pytest.fixture(scope="module")
def desk_records():
    grow = run_scale_out_bench(
        BenchConfig(initial=4, deltas=(2, 4, 8, 16), trials=5))
    matched = {
        (4, 2): run_scale_in_bench(BenchConfig(initial=4, deltas=(2,),
                                               trials=5)),
        (8, 4): run_scale_in_bench(BenchConfig(initial=8, deltas=(4,),
                                               trials=5)),
    }
    matched_grow = {
        (4, 2): grow,
        (8, 4): run_scale_out_bench(BenchConfig(initial=8, deltas=(4,),
                                                trials=5)),
    }
    return grow, matched_grow, matched


def test_criterion_6_scale_out_monotonicity(desk_records):
    def body():
        grow, _, _ = desk_records
        assert not any(r.failed for r in grow), "a benchmark trial failed"
        means = mean_by_delta(grow)
        deltas = (2, 4, 8, 16)
        totals = [means[(SCENARIO_SCALE_OUT, 4, d)]["total_s"]
                  for d in deltas]
        for i in range(len(deltas) - 1):
            assert totals[i + 1] >= totals[i] * 0.80, \
                (f"mean total fell from {totals[i]:.4f}s at delta "
                 f"{deltas[i]} to {totals[i + 1]:.4f}s at delta "
                 f"{deltas[i + 1]}, beyond the 20% allowance")
        shown = ", ".join(f"{d}:{t:.3f}s" for d, t in zip(deltas, totals))
        return f"mean totals non-decreasing ({shown})"

    _verdict(6, "scale-out monotonicity", body)


def test_criterion_7_spawn_dominates_breakdown(desk_records):
    def body():
        grow, _, _ = desk_records
        means = mean_by_delta(grow)
        fractions = {}
        for d in (2, 4, 8, 16):
            entry = means[(SCENARIO_SCALE_OUT, 4, d)]
            fraction = entry["spawn_s"] / entry["total_s"]
            assert fraction >= 0.50, \
                (f"spawn is only {fraction:.0%} of total at delta {d}, "
                 f"needs at least 50%")
            fractions[d] = fraction
        shown = ", ".join(f"{d}:{f:.0%}" for d, f in fractions.items())
        return f"spawn share of total ({shown})"

    _verdict(7, "spawn dominates breakdown", body)


def test_criterion_8_scale_in_beats_scale_out(desk_records):
    def body():
        _, matched_grow, matched_shrink = desk_records
        shown = []
        for (initial, delta), shrink_records in matched_shrink.items():
            assert not any(r.failed for r in shrink_records)
            grow_mean = mean_by_delta(matched_grow[(initial, delta)])[
                (SCENARIO_SCALE_OUT, initial, delta)]["total_s"]
            shrink_mean = mean_by_delta(shrink_records)[
                (SCENARIO_SCALE_IN, initial, delta)]["total_s"]
            assert shrink_mean < grow_mean, \
                (f"scale-in mean {shrink_mean:.4f}s is not below scale-out "
                 f"mean {grow_mean:.4f}s at initial {initial}, delta {delta}")
            shown.append(f"{initial}-{delta}: {shrink_mean:.4f}s "
                         f"< {grow_mean:.4f}s")
        return "; ".join(shown)

    _verdict(8, "scale-in beats scale-out", body)


# -- criterion 9: CSV round-trip ----------------------------------------------

def test_criterion_9_csv_round_trip(tmp_path):
    def body():
        rng = random.Random(3141)
        records = []
        for trial in range(1000):
            scenario = rng.choice((SCENARIO_SCALE_OUT, SCENARIO_SCALE_IN))
            spawn = (round(rng.uniform(0, 30), 6)
                     if scenario == SCENARIO_SCALE_OUT else 0.0)
            other = round(rng.uniform(0, 30), 6)
            records.append(BenchRecord(
                scenario=scenario,
                initial=rng.randrange(1, 200),
                delta=rng.randrange(1, 120),
                trial=trial,
                total_s=round(spawn + other, 6),
                spawn_s=spawn,
                other_s=other,
                hosts_used=rng.randrange(1, 8)))
        path = tmp_path / "round_trip.csv"
        emit_csv(records, path)
        parsed = parse_csv(path)
        assert parsed == records, "parse(emit(records)) is not identical"
        return "1000 records identical after emit+parse"

    _verdict(9, "csv round-trip", body)
